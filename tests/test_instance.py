"""Instance model, serialization round-trips, and the constructed instances."""
import json
import math

import numpy as np
import pytest

from coreclust.errors import ValidationError
from coreclust.instance import (CONTINUOUS_LINE, Clustering, Instance,
                                gen_broom_tree, gen_clique, gen_gaussian,
                                gen_k4, gen_kmedians_bad, gen_line_alpha_lb,
                                gen_line_beta_lb, instance_from_json,
                                load_clustering, load_instance,
                                load_matrix_csv, load_points_csv,
                                load_tree_edges,
                                save_clustering, save_instance)
from coreclust.metric import Space, apsp, validate_metric


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_k_bounds_enforced():
    with pytest.raises(ValidationError):
        Instance(space=Space.line(), agents=[0.0, 1.0], candidates=[0.0], k=3)


def test_continuous_candidates_need_line():
    with pytest.raises(ValidationError):
        Instance(space=Space.euclidean(2), agents=[(0.0, 0.0)],
                 candidates=CONTINUOUS_LINE, k=1)


def test_empty_candidates_rejected():
    with pytest.raises(ValidationError):
        Instance(space=Space.line(), agents=[0.0], candidates=[], k=1)


def test_agent_index_checked():
    sp = Space.from_edges([(0, 1, 1.0)])
    with pytest.raises(ValidationError):
        Instance(space=sp, agents=[0, 7], candidates=[0, 1], k=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_line_agent_rejected(bad):
    with pytest.raises(ValidationError):
        Instance(space=Space.line(), agents=[0.0, bad], candidates=CONTINUOUS_LINE, k=1)
    with pytest.raises(ValidationError):
        Instance(space=Space.line(), agents=[0.0, 1.0], candidates=[0.0, bad], k=1)


def test_fractional_vertex_in_clustering_json_rejected(tmp_path):
    path = tmp_path / "y.json"
    path.write_text('{"centers": [0, 0.5]}')
    with pytest.raises(ValidationError):
        load_clustering(str(path), gen_k4().space)


def _tree_json(edges, agents=(0, 1, 2)):
    return {"space": {"kind": "tree", "edges": edges}, "agents": list(agents),
            "candidates": [0, 1, 2], "k": 1}


@pytest.mark.parametrize("obj", [
    _tree_json([[0, 1, 1.0], [1, 2.7, 1.0]]),
    _tree_json([[0, 1, 1.0], [1, 2, "x"]]),
    _tree_json([[0, 1, 1.0], [1, 2, None]]),
    _tree_json([[0, 1, 1.0], [1, 2, 1.0]], agents=(0, "1")),
])
def test_bad_tree_instance_json_rejected(obj):
    with pytest.raises(ValidationError):
        instance_from_json(obj)


@pytest.mark.parametrize("text", ["0 1 1.0\n1 2.7 1.0\n", "0 1 1.0\n1 2 x\n",
                                  "0 1 1.0\nb 2 1.0\n"])
def test_load_tree_edges_rejects_bad_vertex_or_weight(tmp_path, text):
    path = tmp_path / "tree.txt"
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_tree_edges(str(path), k=1)


def test_load_tree_edges_takes_integral_float_ids(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("0 1.0 1\n1 2 2.5\n")
    assert load_tree_edges(str(path), k=1).space.tree.edges == ((0, 1, 1.0), (1, 2, 2.5))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_k4_shape():
    inst = gen_k4()
    assert inst.n == 4 and inst.k == 2
    assert inst.candidates == [0, 1, 2, 3]
    d = apsp(inst.space)
    off_diag = d[~np.eye(4, dtype=bool)]
    assert np.all(off_diag == 1.0)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 12), (6, 42)])
def test_line_beta_lb_sizes(k, n):
    inst = gen_line_beta_lb(k)
    assert inst.n == n == k * (k + 1)
    assert inst.candidates == CONTINUOUS_LINE


def test_line_beta_lb_layout():
    inst = gen_line_beta_lb(2)
    assert sorted(inst.agents) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]


def test_line_alpha_lb_layout():
    inst = gen_line_alpha_lb(3)
    assert inst.n == 15 and inst.k == 5
    part1 = sorted(a for a in inst.agents if a < 1.5e6)
    assert part1 == [1e6, 1e6, 1e6 + 1, 1e6 + 2, 1e6 + 2]
    # every part carries 2C-1 agents
    for j in range(1, 4):
        part = [a for a in inst.agents if abs(a - j * 1e6) <= 2]
        assert len(part) == 5


def test_line_alpha_lb_large():
    inst = gen_line_alpha_lb(10)
    assert inst.n == 190 and inst.k == 19


def test_clique_generators():
    assert gen_clique(10).k == 5
    c6 = gen_clique(6)
    d = apsp(c6.space)
    assert np.sum(np.triu(d, 1) == 1.0) == 15
    with pytest.raises(ValidationError):
        gen_clique(5)


def test_clique4_coincides_with_k4():
    a, b = gen_k4(), gen_clique(4)
    assert a.agents == b.agents and a.k == b.k
    assert np.array_equal(a.space.matrix, b.space.matrix)


def test_broom_tree_shape():
    inst = gen_broom_tree()
    assert inst.space.tree.vertex_count == 50
    assert inst.n == 50 and inst.k == 7
    assert -(-inst.n // inst.k) == 8
    assert all(w == 1.0 for _, _, w in inst.space.tree.edges)


def test_broom_tree_branches_symmetric():
    inst = gen_broom_tree()
    d = apsp(inst.space)
    perm = np.zeros(50, dtype=int)
    for j in range(7):
        for t in range(7):
            perm[1 + 7 * j + t] = 1 + 7 * ((j + 1) % 7) + t
    rotated = d[np.ix_(perm, perm)]
    assert np.array_equal(rotated, d)


def test_kmedians_bad_layout():
    inst = gen_kmedians_bad(7)
    assert inst.n == 21 and inst.k == 3
    assert -(-inst.n // inst.k) == 7
    group_a = sorted(a for a in inst.agents if a <= 2)
    assert np.median(group_a) == 1.0
    far = sorted(a for a in inst.agents if a > 2)
    assert min(far) >= 1e6 and len(far) == 6


def test_kmedians_bad_rejects_even():
    with pytest.raises(ValidationError):
        gen_kmedians_bad(4)


def test_gaussian_component_sizes():
    inst = gen_gaussian(n=1000, weights=(0.2, 0.3, 0.5), seed=42)
    xs = np.array([a[0] for a in inst.agents])
    sizes = [int(np.sum(xs < 4)), int(np.sum((xs >= 4) & (xs < 12))),
             int(np.sum(xs >= 12))]
    for size, expect in zip(sizes, (200, 300, 500)):
        sigma = math.sqrt(1000 * (expect / 1000) * (1 - expect / 1000))
        assert abs(size - expect) <= 4 * sigma


def test_gaussian_deterministic():
    a = gen_gaussian(n=100, seed=9)
    b = gen_gaussian(n=100, seed=9)
    assert a.agents == b.agents


def test_gaussian_single_component():
    inst = gen_gaussian(n=50, weights=(1.0, 0.0, 0.0), seed=1)
    xs = np.array([a[0] for a in inst.agents])
    assert np.all(np.abs(xs) < 6)


def test_generators_all_metric():
    for inst in (gen_k4(), gen_clique(8), gen_broom_tree(),
                 gen_kmedians_bad(7), gen_gaussian(n=60, seed=0),
                 gen_line_beta_lb(3), gen_line_alpha_lb(4)):
        assert validate_metric(inst.space).ok
        inst.validate()


# ---------------------------------------------------------------------------
# IO round trips
# ---------------------------------------------------------------------------

def test_save_load_k4(tmp_path):
    inst = gen_k4()
    path = tmp_path / "k4.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_save_load_gaussian(tmp_path):
    inst = gen_gaussian(n=100, seed=5)
    path = tmp_path / "g.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    for a, b in zip(inst.agents, back.agents):
        assert abs(a[0] - b[0]) <= 1e-12 and abs(a[1] - b[1]) <= 1e-12


def test_save_load_continuous_line(tmp_path):
    inst = gen_line_beta_lb(2)
    path = tmp_path / "lb.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.continuous_candidates and back.agents == inst.agents


def test_clustering_round_trip(tmp_path):
    inst = gen_k4()
    path = tmp_path / "y.json"
    save_clustering(Clustering(centers=[0, 3]), inst.space, str(path))
    back = load_clustering(str(path), inst.space)
    assert back.centers == [0, 3]


def test_load_instance_json_line(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "label": "tiny", "space": {"kind": "line"},
        "agents": [1, 2, 3], "candidates": "line", "k": 1,
    }))
    inst = load_instance(str(path))
    assert inst.n == 3 and inst.k == 1 and inst.continuous_candidates


def test_load_points_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n0,0\n0,1\n1,0\n1,1\n")
    inst = load_points_csv(str(path), k=2)
    assert inst.space.kind == "euclidean" and inst.space.dim == 2
    assert inst.n == 4 and inst.k == 2


def test_load_points_whitespace(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n5 5\n")
    inst = load_points_csv(str(path), k=1)
    assert inst.n == 2


def test_load_tree_edges(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("0 1 1.0\n1 2 2.5\n")
    inst = load_tree_edges(str(path), k=1)
    assert inst.space.tree.vertex_count == 3
    assert inst.agents == [0, 1, 2]


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("0,1,1\n1,0,1\n1,1,0\n")
    inst = load_matrix_csv(str(path), k=1)
    assert inst.n == 3


def test_parse_error_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_instance(str(path))


def test_invariant_violation_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "label": "bad", "space": {"kind": "line"},
        "agents": [1.0], "candidates": "line", "k": 5,
    }))
    with pytest.raises(ValidationError, match="k"):
        load_instance(str(path))
