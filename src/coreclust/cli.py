"""Command-line front end: generate, cluster, audit, bench, verify.

Machine-readable results always go to JSON files; human summaries print to
stdout.  Exit codes: 0 success, 1 usage error, 2 validation failure,
3 verification-suite failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from . import algorithms as alg
from .audit import audit as run_audit
from . import bench
from .errors import CoreclustError
from .instance import (GENERATORS, load_clustering, load_instance,
                       save_clustering, save_instance)

USAGE_EXIT = 1
VALIDATION_EXIT = 2
VERIFY_EXIT = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_params(text: Optional[str]) -> dict:
    """Comma-separated key=value pairs; ':'-separated values become lists."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise CoreclustError(f"bad --params entry {item!r}; want key=value")
        key, value = item.split("=", 1)
        if ":" in value:
            out[key.strip()] = [_coerce(v) for v in value.split(":")]
        else:
            out[key.strip()] = _coerce(value)
    return out


def _coerce(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="coreclust",
                             description="core-fair clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a constructed instance as JSON")
    g.add_argument("--name", required=True, choices=sorted(GENERATORS))
    g.add_argument("--params", default=None,
                   help="generator arguments, e.g. 'k=6' or 'n=1000,weights=0.2:0.3:0.5'")
    g.add_argument("--out", required=True)

    c = sub.add_parser("cluster", help="run an algorithm on an instance")
    c.add_argument("--instance", required=True)
    c.add_argument("--alg", required=True, choices=list(alg.ALGORITHMS))
    c.add_argument("--lambda", dest="lam", type=int, default=None,
                   help="quantile step for line/tree (default ceil(n/k))")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trace", action="store_true",
                   help="also write the greedy ball trace next to --out")
    c.add_argument("--out", required=True)

    a = sub.add_parser("audit", help="audit a clustering against an instance")
    a.add_argument("--instance", required=True)
    a.add_argument("--clustering", required=True)
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--beta", type=float, default=1.0)
    a.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="run a comparison grid from a config")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--jobs", type=int, default=None)

    v = sub.add_parser("verify", help="run worst-case verification suites")
    v.add_argument("--suite", default="all",
                   help="suite name or 'all' (see bench.SUITES)")
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=None)
    v.add_argument("--out", default=None,
                   help="where to write failure payloads (default verify_failures.json)")
    return parser


def _cmd_generate(args) -> int:
    params = _parse_params(args.params)
    if "weights" in params:
        params["weights"] = tuple(float(w) for w in params["weights"])
    inst = GENERATORS[args.name](**params)
    save_instance(inst, args.out)
    print(f"wrote {inst.label}: n={inst.n}, k={inst.k} -> {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    inst = load_instance(args.instance)
    clustering, trace = alg.ALGORITHMS[args.alg](inst, seed=args.seed, lam=args.lam)
    save_clustering(clustering, inst.space, args.out)
    if args.trace and trace is not None:
        trace_path = args.out + ".trace.json"
        with open(trace_path, "w") as fh:
            json.dump(trace.to_json(), fh, indent=1)
        print(f"trace -> {trace_path}")
    print(f"{args.alg} on {inst.label or args.instance}: "
          f"{len(clustering.centers)} centers -> {args.out}")
    return 0


def _cmd_audit(args) -> int:
    inst = load_instance(args.instance)
    clustering = load_clustering(args.clustering, inst.space)
    result = run_audit(inst, clustering, alpha=args.alpha, beta=args.beta)
    with open(args.out, "w") as fh:
        json.dump(result.to_json(), fh, indent=1)
    beta = "inf" if math.isinf(result.beta_min) else f"{result.beta_min:.6g}"
    print(f"beta_min(alpha={args.alpha}) = {beta}; "
          f"s_max(beta={args.beta}) = {result.s_max}; "
          f"alpha_sup = {result.alpha_sup:.6g}; "
          f"in ({args.alpha},{args.beta})-core: {result.in_core}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    rows = bench.run_bench(config, args.out, jobs=args.jobs)
    errors = [r for r in rows if r.error]
    print(f"{len(rows)} rows -> {args.out} ({len(errors)} cell errors)")
    return 0


def _cmd_verify(args) -> int:
    results = bench.verify_bounds(args.suite, trials=args.trials,
                                  seed=args.seed, jobs=args.jobs)
    failed = False
    payload = []
    for res in results:
        print(res.line())
        if not res.passed:
            failed = True
            payload.append({"suite": res.name, "failures": res.failures})
    if failed:
        out = args.out or "verify_failures.json"
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"failures serialized for replay -> {out}", file=sys.stderr)
        return VERIFY_EXIT
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return USAGE_EXIT
    except CoreclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
