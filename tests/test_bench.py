"""Benchmark harness: rows, tables, plots, suite machinery."""
import json
import math

import numpy as np
import pytest

from coreclust.bench import (ExperimentRow, derive_seed, emit_table,
                             load_rows_json, random_clustering,
                             random_euclidean_instance, random_line_instance,
                             random_matrix_instance, random_tree_instance,
                             render_clusters_svg, run_bench, run_comparison,
                             verify_bounds)
from coreclust.errors import ParameterError
from coreclust.instance import Clustering, gen_gaussian, gen_k4
from coreclust.metric import Space, validate_metric


def test_single_cell_run():
    rows = run_comparison([("k4", gen_k4())], ["greedy"], [2], seed=0)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.beta_min <= 2 * 2 + 1  # the general-metric guarantee at n=4, k=2
    assert row.alpha_sup == pytest.approx(1.0)


def _row_values(row):
    obj = row.to_json()
    obj.pop("wall_time_ms")  # timing is the one field runs won't reproduce
    return obj


def test_grid_shape_and_reproducibility():
    inst = gen_gaussian(n=60, seed=3)
    rows1 = run_comparison([("g60", inst)], ["greedy", "kmeans"], [4, 5], seed=1)
    rows2 = run_comparison([("g60", inst)], ["greedy", "kmeans"], [4, 5], seed=1)
    assert len(rows1) == 4
    for a, b in zip(rows1, rows2):
        assert _row_values(a) == _row_values(b)
        assert abs(a.social_cost_kmeans - b.social_cost_kmeans) <= 1e-12


def test_parallel_rows_match_sequential():
    inst = gen_gaussian(n=40, seed=4)
    seq = run_comparison([("g40", inst)], ["greedy"], [3, 4], seed=2, jobs=None)
    par = run_comparison([("g40", inst)], ["greedy"], [3, 4], seed=2, jobs=2)
    assert [_row_values(r) for r in seq] == [_row_values(r) for r in par]


def test_cell_failure_recorded_not_raised():
    rows = run_comparison([("k4", gen_k4())], ["line"], [2], seed=0)
    assert rows[0].error is not None  # line algorithm on a matrix space


def test_derive_seed_stable():
    assert derive_seed(0, "a", "b", 1) == derive_seed(0, "a", "b", 1)
    assert derive_seed(0, "a", "b", 1) != derive_seed(1, "a", "b", 1)


def test_emit_csv_line_count(tmp_path):
    rows = [ExperimentRow(dataset="d", algorithm="a", k=k) for k in range(20)]
    path = tmp_path / "rows.csv"
    emit_table(rows, str(path), "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 21


def test_emit_json_round_trip(tmp_path):
    rows = [ExperimentRow(dataset="d", algorithm="a", k=1, beta_min=math.inf,
                          alpha_sup=1.5, seed=7)]
    path = tmp_path / "rows.json"
    emit_table(rows, str(path), "json")
    back = load_rows_json(str(path))
    assert back == rows
    assert json.loads(path.read_text())[0]["beta_min"] == "inf"


def test_emit_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_table([], str(path), "csv")
    assert path.read_text().strip().splitlines() == [
        "dataset,algorithm,k,alpha_sup,beta_min,social_cost_kmeans,"
        "social_cost_kmedians,wall_time_ms,seed,error"]


def test_render_svg_star_count(tmp_path):
    inst = gen_gaussian(n=120, seed=0, k=10)
    from coreclust.algorithms import alg_refined
    clustering, _ = alg_refined(inst, "kmeans")
    path = tmp_path / "plot.svg"
    render_clusters_svg(inst, clustering, str(path))
    svg = path.read_text()
    assert svg.count("<polygon") == 10
    assert svg.count("<circle") == 120


def test_render_svg_line_strip(tmp_path):
    from coreclust.instance import Instance, CONTINUOUS_LINE
    inst = Instance(space=Space.line(), agents=[0.0, 1.0, 5.0],
                    candidates=CONTINUOUS_LINE, k=1)
    path = tmp_path / "strip.svg"
    render_clusters_svg(inst, Clustering(centers=[1.0]), str(path))
    assert "<svg" in path.read_text()


def test_render_rejects_high_dim(tmp_path):
    from coreclust.instance import Instance
    pts = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]
    inst = Instance(space=Space.euclidean(3), agents=pts, candidates=pts, k=1)
    with pytest.raises(ParameterError):
        render_clusters_svg(inst, Clustering(centers=[pts[0]]), str(tmp_path / "x.svg"))


def test_run_bench_layout(tmp_path):
    config = {
        "datasets": [{"name": "gaussian", "params": {"n": 50, "seed": 2}}],
        "algorithms": ["greedy", "kmeans"],
        "k_range": [3, 4],
        "seed": 0,
    }
    outdir = tmp_path / "out"
    rows = run_bench(config, str(outdir))
    assert len(rows) == 4
    assert (outdir / "rows.csv").exists()
    assert (outdir / "rows.json").exists()
    assert (outdir / "report.txt").exists()
    plots = list((outdir / "plots").glob("*.svg"))
    assert len(plots) == 4


def test_verify_single_suite_passes():
    results = verify_bounds("k4-empty")
    assert len(results) == 1 and results[0].passed
    assert "PASS" in results[0].line()


def test_verify_unknown_suite():
    with pytest.raises(ParameterError):
        verify_bounds("no-such-suite")


def test_verify_failure_payload_shape():
    from coreclust.bench import _fail
    inst = gen_k4()
    payload = _fail(inst, Clustering(centers=[0, 1]), "demo", math.inf, 2.0)
    assert payload["value"] == "inf"
    assert payload["instance"]["k"] == 2
    json.dumps(payload)  # serializable for replay


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_samplers_produce_valid_instances():
    rng = np.random.default_rng(8)
    from coreclust.algorithms import alg_line, ceil_div
    for _ in range(15):
        line = random_line_instance(rng)
        alg_line(line, ceil_div(line.n, line.k))
        alg_line(line, ceil_div(line.n, line.k + 1))
        tree = random_tree_instance(rng)
        assert validate_metric(tree.space).ok
        euc = random_euclidean_instance(rng)
        assert len(euc.candidates) >= 1
        mat = random_matrix_instance(rng)
        assert validate_metric(mat.space).ok


def test_random_clustering_centers_are_candidates():
    rng = np.random.default_rng(9)
    inst = random_matrix_instance(rng)
    clustering = random_clustering(rng, inst)
    assert len(clustering.centers) == inst.k
    assert all(c in inst.candidates for c in clustering.centers)


def test_run_bench_runs_each_cell_once(tmp_path, monkeypatch):
    from collections import Counter

    from coreclust import algorithms as alg
    from coreclust.bench import render_clusters_svg, run_algorithm
    from coreclust.instance import gen_line_beta_lb
    calls = Counter()
    for name in ("line", "greedy", "kmeans"):
        def counted(inst, seed=0, lam=None, _fn=alg.ALGORITHMS[name], _name=name):
            calls[(inst.label, _name, inst.k)] += 1
            return _fn(inst, seed=seed, lam=lam)
        monkeypatch.setitem(alg.ALGORITHMS, name, counted)
    config = {
        "datasets": [{"name": "gaussian", "params": {"n": 40, "seed": 2}, "label": "g"},
                     {"name": "line-beta", "params": {"k": 3}, "label": "lb"}],
        "algorithms": ["line", "greedy", "kmeans"],
        "k_range": [2, 3],
        "seed": 0,
    }
    outdir = tmp_path / "out"
    rows = run_bench(config, str(outdir))
    assert len(rows) == 12
    assert sum(calls.values()) == 12 and set(calls.values()) == {1}
    assert sum(r.error is not None for r in rows) == 4  # line on g, greedy on lb

    # The plots are those of rendering each cell's clustering afresh.
    datasets = [("g", gen_gaussian(n=40, seed=2)), ("lb", gen_line_beta_lb(3))]
    want = {}
    for label, inst in datasets:
        for name in config["algorithms"]:
            for k in (2, 3):
                inst_k = inst.with_k(k)
                try:
                    y = run_algorithm(inst_k, name, seed=derive_seed(0, label, name, k))
                except ParameterError:
                    continue
                path = tmp_path / f"{label}_{name}_k{k}.svg"
                render_clusters_svg(inst_k, y, str(path))
                want[path.name] = path.read_text()
    got = {p.name: p.read_text() for p in (outdir / "plots").glob("*.svg")}
    assert len(got) == 8 and got == want
