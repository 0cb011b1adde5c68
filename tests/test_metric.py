"""Distance queries, all-pairs computation, and metric-axiom validation."""
import math

import networkx as nx
import numpy as np
import pytest

from coreclust.errors import ValidationError
from coreclust.instance import broom_tree_graph
from coreclust.metric import (Space, TreeGraph, apsp, close, cross_distances,
                              distance, distance_to_set, validate_metric)


@pytest.fixture
def unit_path():
    return Space.from_edges([(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def k4_space():
    return Space.from_matrix(np.ones((4, 4)) - np.eye(4))


def test_line_distance():
    assert distance(Space.line(), 3.0, 7.5) == 4.5


def test_path_distance(unit_path):
    assert distance(unit_path, 0, 2) == 2.0


def test_k4_distance(k4_space):
    assert distance(k4_space, 0, 3) == 1.0


def test_euclidean_uses_two_norm():
    sp = Space.euclidean(2)
    assert distance(sp, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_invalid_vertex_rejected(unit_path):
    with pytest.raises(ValidationError):
        distance(unit_path, 0, 5)


def test_distance_to_set_line():
    assert distance_to_set(Space.line(), 2.0, [0.0, 5.0]) == 2.0


def test_distance_to_set_member_is_zero():
    assert distance_to_set(Space.line(), 5.0, [0.0, 5.0]) == 0.0


def test_distance_to_set_k4(k4_space):
    assert distance_to_set(k4_space, 2, [0, 1]) == 1.0


def test_distance_to_set_rejects_empty():
    with pytest.raises(ValidationError):
        distance_to_set(Space.line(), 1.0, [])


def test_apsp_unit_path(unit_path):
    expected = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    assert np.array_equal(apsp(unit_path), expected)


def test_apsp_weighted_star():
    sp = Space.from_edges([(0, 1, 2.0), (0, 2, 3.0)])
    assert apsp(sp)[1, 2] == 5.0


def test_apsp_broom_tree_branch_depth():
    sp = Space.from_tree(broom_tree_graph())
    # hub to the fourth vertex along any branch
    assert apsp(sp)[0, 4] == 4.0


def test_apsp_matches_networkx_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(10):
        nv = int(rng.integers(2, 100))
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.1, 4.0)))
                 for v in range(1, nv)]
        sp = Space.from_edges(edges)
        g = nx.Graph()
        g.add_nodes_from(range(nv))
        for u, v, w in edges:
            g.add_edge(u, v, weight=w)
        ours = apsp(sp)
        for src, lengths in nx.all_pairs_dijkstra_path_length(g):
            for dst, val in lengths.items():
                assert ours[src, dst] == pytest.approx(val, abs=1e-12)


def test_validate_metric_k4(k4_space):
    assert validate_metric(k4_space).ok


def test_validate_metric_reports_breach():
    bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    report = validate_metric(Space(kind="matrix", matrix=bad))
    assert not report.ok
    a, b, c = report.violation[:3]
    assert {a, b, c} == {0, 1, 2}


def test_constructor_rejects_breach():
    bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(ValidationError):
        Space.from_matrix(bad)


def test_tree_derived_matrix_is_metric():
    rng = np.random.default_rng(3)
    edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2)))
             for v in range(1, 30)]
    sp = Space.from_edges(edges)
    assert validate_metric(Space.from_matrix(apsp(sp))).ok


def test_sampled_metric_axioms():
    rng = np.random.default_rng(11)
    spaces = [Space.line(), Space.euclidean(3),
              Space.from_edges([(int(rng.integers(0, v)), v, 1.0)
                                for v in range(1, 25)])]
    for sp in spaces:
        for _ in range(200):
            if sp.kind == "line":
                a, b, c = rng.uniform(-50, 50, size=3)
            elif sp.kind == "euclidean":
                a, b, c = (tuple(rng.uniform(-5, 5, size=3)) for _ in range(3))
            else:
                a, b, c = (int(x) for x in rng.integers(0, 25, size=3))
            dab = distance(sp, a, b)
            assert dab == pytest.approx(distance(sp, b, a), abs=1e-12)
            assert distance(sp, a, a) == 0.0
            assert distance(sp, a, c) <= dab + distance(sp, b, c) + 1e-9


def test_distance_to_set_union_is_min():
    rng = np.random.default_rng(5)
    sp = Space.line()
    for _ in range(50):
        i = float(rng.uniform(0, 10))
        y1 = [float(x) for x in rng.uniform(0, 10, size=3)]
        y2 = [float(x) for x in rng.uniform(0, 10, size=2)]
        joint = distance_to_set(sp, i, y1 + y2)
        assert joint == pytest.approx(
            min(distance_to_set(sp, i, y1), distance_to_set(sp, i, y2)))


def test_cross_distances_matches_pointwise():
    sp = Space.euclidean(2)
    pts_a = [(0.0, 0.0), (1.0, 2.0)]
    pts_b = [(3.0, 4.0), (1.0, 2.0), (0.0, 1.0)]
    mat = cross_distances(sp, pts_a, pts_b)
    for i, a in enumerate(pts_a):
        for j, b in enumerate(pts_b):
            assert mat[i, j] == pytest.approx(distance(sp, a, b))


def test_tree_graph_invariants():
    with pytest.raises(ValidationError):
        TreeGraph(3, ((0, 1, 1.0),))  # too few edges
    with pytest.raises(ValidationError):
        TreeGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))  # cycle
    with pytest.raises(ValidationError):
        TreeGraph(3, ((0, 1, 1.0), (1, 2, -2.0)))  # negative weight


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_tree_weight_rejected(bad):
    with pytest.raises(ValidationError):
        TreeGraph(3, ((0, 1, 1.0), (1, 2, bad)))


def test_tree_edge_out_of_range_rejected():
    with pytest.raises(ValidationError):
        TreeGraph(3, ((0, 1, 1.0), (1, 5, 1.0)))


@pytest.mark.parametrize("edges", [
    ((0, 1.5, 1.0), (0, 2, 1.0)),  # non-integer vertex id
    ((0, 1.0, 1.0), (0, 2, 1.0)),  # a float id, even an integral one
    ((0, "1", 1.0), (0, 2, 1.0)),
    ((0, 1, "1.0"), (0, 2, 1.0)),  # a weight that is not a number
    ((0, 1, None), (0, 2, 1.0)),
])
def test_tree_graph_rejects_bad_vertex_or_weight(edges):
    with pytest.raises(ValidationError):
        TreeGraph(3, edges)


@pytest.mark.parametrize("edges", [
    [(0, 1.5, 1.0), (0, 2, 2.0)],  # once truncated to edge (0, 1)
    [(0, math.inf, 1.0), (0, 2, 2.0)],
    [(0, "1", 1.0), (0, 2, 2.0)],
    [(0, 1, "x"), (0, 2, 2.0)],
    [(0, 1, "1.5"), (0, 2, 2.0)],
    [(0, 1, None), (0, 2, 2.0)],
])
def test_from_edges_rejects_bad_vertex_or_weight(edges):
    with pytest.raises(ValidationError):
        Space.from_edges(edges)


def test_from_edges_takes_integral_float_ids():
    sp = Space.from_edges([(0.0, 1.0, 1), (2.0, 0, np.float32(2.0))])
    assert sp.tree.edges == ((0, 1, 1.0), (2, 0, 2.0))
    assert all(type(u) is int and type(v) is int and type(w) is float
               for u, v, w in sp.tree.edges)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_matrix_entry_rejected(bad):
    mat = np.ones((3, 3)) - np.eye(3)
    mat[0, 2] = mat[2, 0] = bad
    with pytest.raises(ValidationError):
        Space.from_matrix(mat)
    with pytest.raises(ValidationError):
        Space.from_matrix(mat, validate=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_line_point_rejected(bad):
    with pytest.raises(ValidationError):
        Space.line().check_point(bad)


@pytest.mark.parametrize("dim", [2, 3, 9, 17])
def test_blocked_euclidean_distances_match_one_shot(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((600, dim)) * 1e3
    b = rng.standard_normal((70, dim))
    diff = a[:, None, :] - b[None, :, :]
    one_shot = np.sqrt((diff * diff).sum(axis=2))
    got = cross_distances(Space.euclidean(dim), [tuple(p) for p in a],
                          [tuple(p) for p in b])
    assert np.array_equal(got, one_shot)


def test_close_scales_with_magnitude():
    assert close(1e12, 1e12 + 1e2)
    assert not close(1.0, 1.001)


@pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), 10 ** 5000],
                         ids=["1e400", "-1e400", "1e5000"])
def test_line_point_beyond_float_range_rejected(big):
    with pytest.raises(ValidationError):
        Space.line().check_point(big)
