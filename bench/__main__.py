"""Benchmark harness for the repro package.

    python -m bench run [--workload W] [--seed S] [--reps N | --seconds T]
                        [--trace 0|1] [--smoke] [--check] [--out F]
    python -m bench compare A.json B.json

``run`` prepares seeded inputs, runs every rep in a fresh child process
(round-robin across workloads), prints every metric with its unit and
checks the outputs.  Its last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  ``compare`` judges two ``--out`` files against the
bounds in ``BENCHMARK.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.workloads import DEFAULT_SEED, WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WORK = ROOT / ".bench_work"

COUNT_UNITS = ("count", "bytes")
REP_TIMEOUT_S = 150
PREPARE_TIMEOUT_S = 600


def _child(req: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    # Prepare compiles bytecode into the prefix so that reps load it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-m", "bench.child", json.dumps(req)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"child timed out after {timeout} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "errors": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def _stats(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _summarize(
    reps: List[Dict[str, Any]], ops: int, pinned: Optional[str], spec: Dict[str, Any]
) -> Dict[str, Any]:
    """Medians, quartiles and failures of one workload's reps.

    A rep fails all its ops if it raised or its digest differs from the
    pinned one (or, with none pinned, from the first rep's); otherwise it
    fails the ops whose invariants broke.
    """
    reference = pinned or next((r["digest"] for r in reps if r["ok"]), "")
    failed, errors = 0, []
    for r in reps:
        errors += r["errors"]
        if not r["ok"] or r["digest"] != reference:
            failed += ops
            if r["ok"]:
                errors.append(f"output digest {r['digest']} != expected {reference}")
        else:
            failed += r["failed"]
    ok = [r for r in reps if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    values = {m["name"]: [r[m["name"]] for r in plain] for m in spec["end_to_end"]}
    for metric in ("setup.import_s", "setup.inputs_s"):
        values[metric] = [r[metric] for r in ok]
    for r in plain:
        for metric, v in r["caches"].items():
            values.setdefault(metric, []).append(v)
    for r in traced:
        for metric, v in r["layers"].items():
            values.setdefault(metric, []).append(v)
    metrics = {m: _stats(v) for m, v in values.items() if v}
    if traced:
        # Each round runs one untraced and one traced rep back to back;
        # pairing them cancels the machine's drift between rounds.
        pairs = [(a, b) if b["traced"] else (b, a) for a, b in zip(reps[::2], reps[1::2])]
        ratios = [t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs if u["ok"] and t["ok"]]
        if ratios:
            metrics["trace.overhead_frac"] = _stats(ratios)
    attempted = ops * len(reps)
    metrics["failed_frac"] = _stats([failed / attempted])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for metric, entry in metrics.items():
        entry["unit"] = units.get(metric, "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": reference,
        "metrics": metrics,
    }


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    size = "smoke" if args.smoke else "full"
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    pinned = expected["digests"] if (args.seed, size) == (expected["seed"], "full") else {}

    base = {"seed": args.seed, "size": size, "scratch": str(WORK)}
    # Inputs are kept per seed and sizes; delete .bench_work to remake them.
    inputs = {
        n: str(WORK / "inputs" / f"{n}-{args.seed}-{digest(WORKLOADS[n].sizes[size])[:12]}")
        for n in names
    }
    for name in names:
        ready = Path(inputs[name]) / "ready"
        if ready.exists():
            continue
        req = dict(base, mode="prepare", workload=name, inputs=inputs[name])
        result = _child(req, PREPARE_TIMEOUT_S)
        if not result["ok"]:
            print(f"error: preparing {name} failed:\n{result['errors'][0]}", file=sys.stderr)
            return 1
        ready.touch()

    reps: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    started = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            # Alternate which kind goes first so drift hits both equally.
            kinds = (False, True) if args.trace else (False,)
            for traced in kinds if rounds % 2 == 0 else kinds[::-1]:
                req = dict(base, mode="rep", workload=name, inputs=inputs[name], traced=traced)
                reps[name].append(dict(_child(req, REP_TIMEOUT_S), traced=traced))
        rounds += 1
        elapsed = time.perf_counter() - started
        if (elapsed >= args.seconds) if args.seconds else (rounds >= args.reps):
            break

    report: Dict[str, Any] = {"seed": args.seed, "size": size, "rounds": rounds, "workloads": {}}
    spans = []
    for name in names:
        workload = WORKLOADS[name]
        ops = workload.ops(workload.sizes[size])
        report["workloads"][name] = _summarize(reps[name], ops, pinned.get(name), spec)
        for index, r in enumerate(reps[name]):
            for span_name, start, end, parent in r.get("spans", ()):
                spans.append(
                    {"workload": name, "rep": index, "name": span_name,
                     "start": start, "end": end, "parent": parent}
                )

    out = Path(args.out) if args.out else WORK / "last-run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if spans:
        out.with_name(out.stem + ".spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    shown = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    attempted = failed = 0
    line_metrics: Dict[str, Any] = {}
    for name, result in report["workloads"].items():
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed, digest {result['digest'][:16]}")
        for error in result["errors"]:
            print(f"  ERROR {error}", file=sys.stderr)
        for metric, entry in sorted(result["metrics"].items()):
            print(
                f"  {metric:28s} {entry['median']:14.6g} {entry['unit']:6s}"
                f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}"
            )
        for metric in shown:
            if metric in result["metrics"]:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                entry = result["metrics"][metric]
                line_metrics[key] = {"value": entry["median"], "unit": entry["unit"]}
    correct = failed == 0 and len(line_metrics) == len(shown) * len(names)
    print(f"report: {out}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": line_metrics}
    ))
    return 1 if args.check and not correct else 0


def _verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """Judge B against A: worse, unresolved (spread wider than the bound,
    unless every rep of B beats every rep of A) or within."""
    sign = 1.0 if better == "lower" else -1.0
    spread = max((x["q3"] - x["q1"]) / x["median"] for x in (a, b))
    if spread > bound:
        all_better = all(sign * (vb - va) < 0 for va in a["values"] for vb in b["values"])
        return "within" if all_better else "unresolved"
    return "worse" if sign * (b["median"] - a["median"]) / a["median"] > bound else "within"


def compare(args: argparse.Namespace) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sides = [json.loads(Path(p).read_text(encoding="utf-8"))["workloads"] for p in (args.a, args.b)]
    bad = False
    for name in sorted(set(sides[0]) | set(sides[1])):
        if not all(name in side for side in sides):
            print(f"{name}: present in one file only")
            bad = True
            continue
        ma, mb = (side[name]["metrics"] for side in sides)
        rows = [
            (m["name"], m["bound"], _verdict(ma[m["name"]], mb[m["name"]], m["bound"], m["better"]))
            for m in spec["end_to_end"]
        ]
        # Failures have bound +0: any increase is worse.
        failed = "worse" if mb["failed_frac"]["median"] > ma["failed_frac"]["median"] else "within"
        for metric, bound, verdict in rows + [("failed_frac", 0.0, failed)]:
            a, b = ma[metric], mb[metric]
            bad |= verdict == "worse"
            print(
                f"{name:15s} {metric:12s} A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                f"  B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  bound {bound:+.0%}  {verdict}"
            )
        for metric in sorted(ma):
            if ma[metric]["unit"] in COUNT_UNITS and metric in mb:
                seen = set(ma[metric]["values"]) | set(mb[metric]["values"])
                if len(seen) > 1:
                    print(f"{name:15s} {metric}: counts differ {sorted(seen)}")
                    bad = True
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    # Turn SIGTERM into SystemExit so that a running child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    r = commands.add_parser("run", help="run workloads and print every metric")
    r.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all)")
    r.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed the inputs are made from")
    r.add_argument("--reps", type=int, default=5, help="untraced reps per workload")
    r.add_argument("--seconds", type=float, default=0.0,
                   help="run rounds of reps until this many seconds have passed "
                   "(replaces --reps)")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add one traced rep per untraced rep and print per-layer metrics")
    r.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    r.add_argument("--check", action="store_true", help="exit 1 if any output is wrong")
    r.add_argument("--out", help="result file (default .bench_work/last-run.json)")
    c = commands.add_parser("compare", help="judge result file B against A")
    c.add_argument("a", help="baseline result file")
    c.add_argument("b", help="candidate result file")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
