"""Import paths and BLAS pinning for the benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
