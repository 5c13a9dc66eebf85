"""What a process of the package loads.

The package uses scipy only for its compiled assignment solver, which
`association` loads from its extension file. Importing the `scipy.optimize`
package would add about 0.3 s and 45 MB to every process, so a fresh
interpreter that imports every module and runs a whole workflow must never
have it in `sys.modules`.
"""

import json
import os
import pathlib
import subprocess
import sys

import cooptrack

SCRIPT = """
import importlib, json, os, pkgutil, sys
import cooptrack
from cooptrack import cli

for info in pkgutil.iter_modules(cooptrack.__path__):
    importlib.import_module("cooptrack." + info.name)
config, out = sys.argv[1], sys.argv[2]
sim, trk = os.path.join(out, "sim"), os.path.join(out, "trk")
codes = [
    cli.main(["simulate", "--config", config, "--out", sim]),
    cli.main(["track", "--config", config, "--detections", sim, "--out", trk]),
    cli.main(["eval", "--tracks", trk, "--gt", sim,
              "--out", os.path.join(out, "summary.csv")]),
]
print(json.dumps({"codes": codes,
                  "optimize": sorted(m for m in sys.modules
                                     if m == "scipy.optimize"
                                     or m.startswith("scipy.optimize."))}))
"""


def test_a_whole_workflow_never_imports_the_scipy_optimize_package(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"duration": 4}}))
    src = str(pathlib.Path(cooptrack.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(config), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["optimize"] == ["scipy.optimize._lsap"]
