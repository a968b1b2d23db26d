"""One prepare step or one rep, in a fresh process.

    python -m bench.child '<json request>'

The parent (``python -m bench run``) starts one child per rep so that
every rep pays the same cold start and no rep sees another's caches.
The child prints one JSON object as its last line of output.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict

from bench.tracer import BOUNDARIES, Tracer, install, layer_metrics
from bench.workloads import WORKLOADS


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def prepare(req: Dict[str, Any]) -> Dict[str, Any]:
    """Write the inputs of one workload and seed, and compile every module
    a rep imports, so that no timed rep compiles bytecode."""
    workload = WORKLOADS[req["workload"]]
    for module in workload.modules + tuple(sorted({b[0] for b in BOUNDARIES})):
        importlib.import_module(module)
    inputs = Path(req["inputs"])
    inputs.mkdir(parents=True, exist_ok=True)
    workload.prepare(workload.sizes[req["size"]], req["seed"], inputs)
    return {"ok": True}


def rep(req: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, run the timed window, then check the output."""
    workload = WORKLOADS[req["workload"]]
    p = workload.sizes[req["size"]]
    started = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    state = workload.setup(p, Path(req["inputs"]), Path(req["scratch"]))
    ready = time.perf_counter()

    tracer = Tracer()
    if req["traced"]:
        install(tracer)
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    try:
        out = workload.run(state)
    finally:
        wall1, cpu1 = time.perf_counter(), _cpu_s()
        tracer.restore()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from repro.kernels.cache import cache_stats

    caches = {
        f"cache.{ns}.{kind}": stats[kind]
        for ns, stats in cache_stats().items()
        for kind in ("hits", "misses")
    }
    output_digest, failed, errors = workload.check(state, out)
    workload.close(state)
    result = {
        "ok": True,
        "ops": workload.ops(p),
        "failed": failed,
        "errors": errors,
        "digest": output_digest,
        "setup.import_s": imported - started,
        "setup.inputs_s": ready - imported,
        "setup_s": ready - started,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "caches": caches,
    }
    if req["traced"]:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, wall1 - wall0)
        result["spans"] = [
            [name, start - wall0, end - wall0, parent]
            for name, start, end, parent in tracer.spans
        ]
    return result


def main(argv: list) -> int:
    req = json.loads(argv[1])
    try:
        result = prepare(req) if req["mode"] == "prepare" else rep(req)
    except Exception:  # the parent counts this rep's ops as failed
        result = {"ok": False, "errors": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
