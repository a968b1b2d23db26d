"""A superstep's cost does not depend on the process's allocation history.

The engine keeps one workspace per run, so its page faults are the
workspace's own first touches, whatever the allocator did before.  Each
app runs once on one machine over the largest proxy graph, in a fresh
interpreter, and again in a fresh interpreter that first allocates and
frees 4 MiB (which raises glibc's dynamic mmap threshold, so that later
large temporaries reuse heap pages instead of faulting in new ones).
``getrusage`` counts the minor faults of the run alone.  The run also
computes the graph's degrees and the layout's working set for the first
time, so those must not depend on the allocator's history either.

Before the workspace, a fresh run faulted far more than one after the
allocation (2-vCPU VM, numpy 2.4): PageRank 29,372 against 1,474,
Connected Components 12,795 against 1,781.  While the degrees were
counted with ``np.bincount``, which copies the frozen endpoint arrays,
a different heap layout could still move Connected Components from
about 1,900 faults to 2,395 fresh against 1,873 after the allocation.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

resource = pytest.importorskip("resource")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="minor-fault counts and the allocator under test are glibc's",
)

_SCRIPT = """
import json, resource, sys
import numpy as np
from repro.apps.registry import make_app
from repro.core.proxy import ProxySet
from repro.engine.distributed_graph import DistributedGraph
from repro.partition.base import PartitionResult

app_name, allocate_first = sys.argv[1], sys.argv[2] == "1"
graph = ProxySet(num_vertices=40_000, alphas=(1.95,)).graphs()["proxy_alpha_1.95"]
dgraph = DistributedGraph(
    PartitionResult(
        graph=graph,
        assignment=np.zeros(graph.num_edges, dtype=np.int32),
        num_machines=1,
        algorithm="single",
        weights=np.array([1.0]),
    )
)
app = make_app(app_name)
if allocate_first:
    block = np.ones(4 << 20, dtype=np.uint8)
    del block
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
app.execute(dgraph)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"edges": graph.num_edges, "faults": faults}))
"""

#: The largest proxy's edge count, which sizes the bound below.
_EDGES = 283_944


def _run_faults(app: str, allocate_first: bool) -> int:
    src = str(Path(repro.__file__).resolve().parents[1])
    # The allocator's own settings would change what is measured.
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, app, "1" if allocate_first else "0"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    row = json.loads(out.stdout)
    assert row["edges"] == _EDGES
    return int(row["faults"])


@pytest.mark.parametrize("app", ["pagerank", "connected_components"])
def test_faults_do_not_depend_on_allocation_history(app):
    fresh = _run_faults(app, allocate_first=False)
    after = _run_faults(app, allocate_first=True)
    # One float64 edge array's pages: the run may touch about three
    # edge-length buffers once, and nothing per superstep.
    edge_array_pages = math.ceil(_EDGES * 8 / resource.getpagesize())
    assert fresh <= 4 * edge_array_pages, (fresh, after)
    assert fresh <= 1.5 * after, (fresh, after)
