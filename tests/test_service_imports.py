"""The import boundary between the job service and the federation.

``repro.federation`` builds on ``repro.service`` (requests, policies,
breakers and the per-shard ``JobService``), never the other way round:
importing the service package must not load the federation, and no
module of it may import the federation, not even inside a function.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_service_leaves_federation_unloaded():
    script = textwrap.dedent(
        """
        import sys
        import repro.service
        from repro.service import ServicePolicy, generate_workload

        generate_workload(3, seed=0)
        ServicePolicy()
        print(sorted(m for m in sys.modules if m.startswith("repro.federation")))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_no_service_module_imports_federation():
    offenders = []
    for path in sorted((SRC / "repro" / "service").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.startswith("repro.federation") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
