"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted by every
workload in both trace modes, that the audit recheck catches tampered
witnesses and answers, and that item digests are stable across two
identical calls.
Exits non-zero on the first failure.  Takes a few seconds.
"""
import dataclasses
import sys

import numpy as np

import run

run.import_package()
sys.path.insert(0, str(run.HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gauss-pipeline": lambda: workloads.GaussPipeline(n=120, ks=(4, 6), warm_n=40),
    "audit-n2000": lambda: workloads.AuditN2000(n=150, ks=(4,), warm_n=40),
    "small-verify": lambda: workloads.SmallVerify(chunk=16, n_max=14, warm_items=4),
}
OUT = str(run.OUT_DIR / "selftest")


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def item_pass(workload, count: int, reference=()) -> "harness.Pass":
    inputs = workload.build(7)
    p = harness.Pass(workload, list(reference))
    for i in range(count):
        p.add(*harness._item(workload, inputs, harness.NULL, i))
    return p


def test_metrics_emitted() -> None:
    spec = run.load_spec()
    for name, make in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = harness.run(make(), 0, 0.3, trace, [], OUT)
            want = {m["name"] for m in spec[key]}
            expect(set(res["metrics"]) == want,
                   f"{name} trace={trace}: emitted {sorted(res['metrics'])}, want {sorted(want)}")
            expect(all(isinstance(v, float) for v in res["metrics"].values()),
                   f"{name} trace={trace}: a metric value is not a float")
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   f"{name} trace={trace}: {res['failed']} of {res['attempted']} items failed")


def test_digest_stable() -> None:
    for name, make in TINY.items():
        first, second = item_pass(make(), 4), item_pass(make(), 4)
        expect(not first.problems, f"{name}: clean items reported {first.problems}")
        expect(first.digests == second.digests,
               f"{name}: digests differ between calls: {first.digests} {second.digests}")
        bad = item_pass(make(), 1, reference=["0" * 16])
        expect(bool(bad.problems), f"{name}: a digest unlike the stored one went unnoticed")


def test_tampered_witness_caught() -> None:
    w = TINY["audit-n2000"]()
    x = w.build(3).item(1)  # k distinct candidates: nothing is in core here
    res = w.run_item(x, harness.NULL)["audit"]
    expect(not workloads.check_result(x.raw, x.points, x.inst, x.clustering, res),
           "the untampered audit failed its recheck")
    wit = res.s_witness
    expect(wit is not None and len(wit.coalition) > 1, "tiny audit has no s_max witness")
    centers = list(x.clustering.centers)
    tampered = {
        "coalition member dropped": dataclasses.replace(wit, coalition=wit.coalition[:-1]),
        "sum d(i,Y) inflated": dataclasses.replace(wit, sum_to_Y=wit.sum_to_Y * 1.01 + 1.0),
        "sum d(i,y') deflated": dataclasses.replace(wit, sum_to_y_prime=wit.sum_to_y_prime
                                                    * 0.99),
        "deviation at a used center": dataclasses.replace(wit, y_prime=centers[0]),
    }
    for what, bad in tampered.items():
        errs = workloads.check_result(x.raw, x.points, x.inst, x.clustering,
                                      dataclasses.replace(res, s_witness=bad))
        expect(bool(errs), f"tampered witness not caught: {what}")
    # answers an auditor that wrongly finds nothing would give, with no witness
    for what, bad in {
        "in_core flipped": dataclasses.replace(res, in_core=True, core_witness=None),
        "s_max zeroed": dataclasses.replace(res, s_max=0, s_witness=None),
        "beta_min zeroed": dataclasses.replace(res, beta_min=0.0, beta_witness=None),
        "nothing found": dataclasses.replace(res, in_core=True, core_witness=None, s_max=0,
                                             s_witness=None, beta_min=0.0, beta_witness=None),
    }.items():
        errs = workloads.check_result(x.raw, x.points, x.inst, x.clustering, bad)
        expect(bool(errs), f"tampered audit answer not caught: {what}")
    # the agents sitting closest to Y, with honest sums: they do not block
    d_y = np.min([x.raw.profile(x.points, c) for c in centers], axis=0)
    near = [int(i) for i in np.argsort(d_y, kind="stable")[:len(wit.coalition)]]
    honest = dataclasses.replace(
        wit, coalition=near, sum_to_Y=float(d_y[near].sum()),
        sum_to_y_prime=float(x.raw.profile(x.points[near], wit.y_prime).sum()))
    errs = workloads.check_result(x.raw, x.points, x.inst, x.clustering,
                                  dataclasses.replace(res, s_witness=honest))
    expect(any("does not block" in e for e in errs),
           f"tampered witness not caught: non-blocking coalition ({errs})")


def main() -> int:
    test_metrics_emitted()
    test_digest_stable()
    test_tampered_witness_caught()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
