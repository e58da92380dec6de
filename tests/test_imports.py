"""What importing the command line pulls in.

A fresh interpreter that has already imported numpy must load nothing but
the library's own modules and the standard library when it imports
`taylor_edges.cli`: every other import is paid by each command-line run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import taylor_edges

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import taylor_edges.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_library_and_stdlib_modules():
    package_root = str(Path(taylor_edges.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    loaded = json.loads(out.stdout)
    assert "taylor_edges.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "taylor_edges" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
