"""Test set-up of the benchmark: pinned BLAS, ``repro`` from ``src/``.

Run with ``python3 -m pytest e2ebench`` from the repository root.
"""

import os
import sys
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]
