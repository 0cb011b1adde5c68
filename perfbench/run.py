"""coreclust benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, a table

Run from the repository root.  The package is imported from the source
tree next to this directory (src/coreclust), never from an installed copy.
The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), each with its unit as declared in BENCHMARK.json.
"""
import os

# pinned before numpy is first imported: one BLAS/OpenMP thread, one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gauss-pipeline", "audit-n2000", "small-verify")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import coreclust from ROOT/src; exit non-zero when it is not there."""
    if not (SRC / "coreclust" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'coreclust'}; "
                 "run from a coreclust checkout")
    sys.path.insert(0, str(SRC))
    import coreclust
    if Path(coreclust.__file__).resolve().parent != (SRC / "coreclust").resolve():
        sys.exit(f"perfbench: imported coreclust from {coreclust.__file__}, not {SRC}")
    return coreclust


def load_reference(name: str, seed: int) -> list:
    """Stored item digests for this workload at the reference seed."""
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    return ref["items"].get(name, []) if seed == ref["seed"] else []


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    spec = load_spec()
    import_package()
    sys.path.insert(0, str(HERE))
    import harness
    import workloads
    result = harness.run(workloads.WORKLOADS[name](), seed, seconds, bool(trace),
                         load_reference(name, seed), str(OUT_DIR))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(result["metrics"]):
        sys.exit(f"perfbench: metrics {sorted(result['metrics'])} do not match "
                 f"BENCHMARK.json {sorted(declared)}")
    summary = result["summary"]
    print(f"# {name} seed={seed} trace={trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_ratio={summary['failed_ratio']:.4g}")
    if "item_ms_p90" in summary:
        print(f"# item_ms_p90 {summary['item_ms_p90']:.6g} ms over {summary['items']} items")
    print(f"# result digest {summary['digest']} over {summary['items']} items; "
          f"stored reference: {summary['reference']} "
          f"({summary['reference_items']} items compared)")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in declared.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, one after another, as a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"{name:<16} failed {res['failed']}/{res['attempted']} "
              f"(failed_ratio {res['failed'] / res['attempted']:.4g})")
        for metric, mv in res["metrics"].items():
            print(f"{'':<16} {metric:<34} {mv['value']:>14.6g} {mv['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": mv for w, r in results.items() for m, mv in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed item seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        result = run_all(args.seed, seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
