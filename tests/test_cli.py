"""End-to-end CLI: pipelines, exit codes, file outputs."""
import json

import pytest

from coreclust.cli import main


def test_generate_cluster_audit_pipeline(tmp_path):
    inst_path = str(tmp_path / "k4.json")
    y_path = str(tmp_path / "y.json")
    audit_path = str(tmp_path / "audit.json")
    assert main(["generate", "--name", "k4", "--out", inst_path]) == 0
    assert main(["cluster", "--instance", inst_path, "--alg", "greedy",
                 "--out", y_path]) == 0
    assert main(["audit", "--instance", inst_path, "--clustering", y_path,
                 "--alpha", "1", "--out", audit_path]) == 0
    result = json.loads(open(audit_path).read())
    assert result["beta_min"] == pytest.approx(2.0)
    assert result["in_core"] is False


def test_generate_with_params(tmp_path):
    out = str(tmp_path / "lb.json")
    assert main(["generate", "--name", "line-beta", "--params", "k=3",
                 "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert len(obj["agents"]) == 12


def test_cluster_trace_flag(tmp_path):
    inst_path = str(tmp_path / "k4.json")
    y_path = str(tmp_path / "y.json")
    main(["generate", "--name", "k4", "--out", inst_path])
    assert main(["cluster", "--instance", inst_path, "--alg", "greedy",
                 "--trace", "--out", y_path]) == 0
    trace = json.loads(open(y_path + ".trace.json").read())
    assert trace and trace[0]["kind"] in ("absorb", "open")


def test_audit_mismatched_k_exit_2(tmp_path):
    inst_path = str(tmp_path / "k4.json")
    y_path = str(tmp_path / "y.json")
    main(["generate", "--name", "k4", "--out", inst_path])
    with open(y_path, "w") as fh:
        json.dump({"centers": [0, 1, 2]}, fh)
    code = main(["audit", "--instance", inst_path, "--clustering", y_path,
                 "--out", str(tmp_path / "a.json")])
    assert code == 2


@pytest.mark.parametrize("centers", [[0, 7], [0, 0.5]])
def test_audit_center_outside_space_exit_2(tmp_path, capsys, centers):
    inst_path = str(tmp_path / "k4.json")
    y_path = str(tmp_path / "y.json")
    main(["generate", "--name", "k4", "--out", inst_path])
    with open(y_path, "w") as fh:
        json.dump({"centers": centers}, fh)
    capsys.readouterr()
    code = main(["audit", "--instance", inst_path, "--clustering", y_path,
                 "--out", str(tmp_path / "a.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("edge", [[1, 2.7, 1.0], [1, 2, "x"]])
def test_cluster_bad_tree_edge_exit_2(tmp_path, capsys, edge):
    inst_path = str(tmp_path / "tree.json")
    with open(inst_path, "w") as fh:
        json.dump({"space": {"kind": "tree", "edges": [[0, 1, 1.0], edge]},
                   "agents": [0, 1, 2], "candidates": [0, 1, 2], "k": 1}, fh)
    capsys.readouterr()
    code = main(["cluster", "--instance", inst_path, "--alg", "tree",
                 "--out", str(tmp_path / "y.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_flag_exit_1():
    assert main(["cluster", "--bogus"]) == 1


def test_missing_subcommand_exit_1():
    assert main([]) == 1


def test_verify_suite_exit_0():
    assert main(["verify", "--suite", "k4-empty"]) == 0


def test_verify_small_trials_exit_0():
    assert main(["verify", "--suite", "greedy-beta-bound", "--trials", "5"]) == 0


def test_verify_unknown_suite_exit_2():
    assert main(["verify", "--suite", "nope"]) == 2


def test_bench_command(tmp_path):
    config = {"datasets": [{"name": "gaussian", "params": {"n": 40, "seed": 1}}],
              "algorithms": ["greedy"], "k_range": [3, 3], "seed": 0}
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    assert main(["bench", "--config", str(cfg), "--out", out]) == 0
    rows = json.loads(open(out + "/rows.json").read())
    assert len(rows) == 1 and rows[0]["error"] is None


def test_cluster_kmeans_on_gaussian(tmp_path):
    inst_path = str(tmp_path / "g.json")
    y_path = str(tmp_path / "y.json")
    assert main(["generate", "--name", "gaussian",
                 "--params", "n=50,seed=3,k=4", "--out", inst_path]) == 0
    assert main(["cluster", "--instance", inst_path, "--alg", "kmeans",
                 "--seed", "5", "--out", y_path]) == 0
    centers = json.loads(open(y_path).read())["centers"]
    assert len(centers) == 4


def test_cluster_refined_kmedians_matches_library(tmp_path):
    from coreclust.algorithms import alg_refined
    from coreclust.instance import load_clustering, load_instance
    inst_path = str(tmp_path / "g.json")
    y_path = str(tmp_path / "y.json")
    main(["generate", "--name", "gaussian", "--params", "n=60,seed=4,k=5",
          "--out", inst_path])
    assert main(["cluster", "--instance", inst_path, "--alg", "refined-kmedians",
                 "--out", y_path]) == 0
    inst = load_instance(inst_path)
    want, _ = alg_refined(inst, "kmedians")
    assert load_clustering(y_path, inst.space).centers == want.centers
    assert want.centers != alg_refined(inst, "kmeans")[0].centers  # the name matters


def test_cluster_lambda_on_line_matches_library(tmp_path):
    from coreclust.algorithms import alg_line
    from coreclust.instance import load_clustering, load_instance
    inst_path = str(tmp_path / "lb.json")
    y_path = str(tmp_path / "y.json")
    main(["generate", "--name", "line-beta", "--params", "k=3", "--out", inst_path])
    assert main(["cluster", "--instance", inst_path, "--alg", "line",
                 "--lambda", "2", "--out", y_path]) == 0
    inst = load_instance(inst_path)
    assert load_clustering(y_path, inst.space).centers == alg_line(inst, 2).centers
    assert alg_line(inst, 2).centers != alg_line(inst, 4).centers  # the flag matters


def test_cluster_lambda_zero_exit_2(tmp_path):
    inst_path = str(tmp_path / "lb.json")
    main(["generate", "--name", "line-beta", "--params", "k=3", "--out", inst_path])
    assert main(["cluster", "--instance", inst_path, "--alg", "line",
                 "--lambda", "0", "--out", str(tmp_path / "y.json")]) == 2


def test_cluster_obj_flag_removed_exit_1(tmp_path):
    inst_path = str(tmp_path / "g.json")
    main(["generate", "--name", "gaussian", "--params", "n=30,seed=1,k=3",
          "--out", inst_path])
    assert main(["cluster", "--instance", inst_path, "--alg", "refined",
                 "--obj", "kmedians", "--out", str(tmp_path / "y.json")]) == 1
